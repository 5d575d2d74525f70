//! `point_hot` and `point_cold`: one loaded index, point reads whose
//! working set either fits the caches and the TLB or does not.

use crate::arms::{
    build_eh, in_blocks, load, mem_bytes_per_key, served_frac, Report, RunCfg, StdMap, SYNC_TIMEOUT,
};
use crate::ladder;
use crate::measure::{interleave, merge, ratio, series, Arm, SliceOutcome};
use crate::trace::Trace;
use crate::util::{value_of, Rng};
use std::hint::black_box;
use std::time::Instant;
use taking_the_shortcut::exhash::ExtendibleHash;
use taking_the_shortcut::{Index, ShortcutIndex};

/// Keys loaded into every arm.
const KEYS: usize = 1 << 19;
/// Size of `point_hot`'s probe set: 1024 buckets' worth of lines fit L2.
const HOT_KEYS: usize = 1 << 10;
/// Probes in the stream the slices cycle through.
const STREAM: usize = 1 << 20;
/// Keys per `get_many` call.
pub const BATCH: usize = 256;
/// Blocks of (set-up, measure) per run; `setup_s` is the fastest set-up.
const BLOCKS: usize = 8;
/// Steps of the main measuring call that the reference host (NOISE.md)
/// does per second in its quiet state, by (hot, traced): a step is one
/// slice per arm, 3 arms untraced and 9 traced. The untraced cold rate is
/// set a quarter below the quiet 270: in the host's slow half-hours those
/// steps take 1.7x as long, and the driver's 92 runs share one time limit.
fn steps_per_second(hot: bool, traced: bool) -> f64 {
    match (hot, traced) {
        (true, false) => 250.0,
        (false, false) => 200.0,
        (true, true) => 115.0,
        (false, true) => 130.0,
    }
}

pub struct Loaded {
    pub std_map: StdMap,
    pub shortcut: ShortcutIndex,
    pub eh: ExtendibleHash,
    pub keys: Vec<u64>,
    pub probes: Vec<u64>,
    pub sync_wait_ms: f64,
}

fn setup(cfg: &RunCfg, hot: bool, trace: &mut Trace, parent: Option<usize>) -> Loaded {
    let mut rng = Rng::new(cfg.seed);
    let n = cfg.scaled(KEYS);
    let span = trace.open("streams", "bench", parent);
    let keys = rng.keys(n);
    let pool = if hot { cfg.scaled(HOT_KEYS).max(16) } else { n };
    let probes: Vec<u64> = (0..cfg.scaled(STREAM).max(1 << 12))
        .map(|_| keys[rng.below(pool)])
        .collect();
    trace.close(span, probes.len() as u64);

    let span = trace.open("build_shortcut", "facade", parent);
    let builder = cfg.shortcut_builder(n);
    let mut shortcut = cfg
        .placement
        .off_driver(|| builder.build())
        .expect("Shortcut arm construction");
    load(&mut shortcut, &keys);
    trace.close(span, n as u64);

    let span = trace.open("wait_sync", "core", parent);
    let start = Instant::now();
    let synced = shortcut.wait_sync(SYNC_TIMEOUT);
    let sync_wait_ms = start.elapsed().as_secs_f64() * 1e3;
    trace.close(span, 1);
    assert!(
        synced,
        "the shortcut never caught up after loading {n} keys"
    );

    let span = trace.open("build_eh", "exhash", parent);
    let mut eh = build_eh(n);
    load(&mut eh, &keys);
    trace.close(span, n as u64);

    let span = trace.open("build_std", "bench", parent);
    let mut std_map = StdMap::default();
    load(&mut std_map, &keys);
    trace.close(span, n as u64);

    Loaded {
        std_map,
        shortcut,
        eh,
        keys,
        probes,
        sync_wait_ms,
    }
}

/// Check a reply against the value its key must hold.
#[inline(always)]
pub fn wrong(key: u64, reply: Option<u64>) -> u64 {
    u64::from(reply != Some(value_of(key)))
}

/// An arm that calls `get` once per probe of the slice.
pub fn get_arm<'a>(
    name: &'static str,
    layer: &'static str,
    index: &'a (impl Index + ?Sized),
    probes: &'a [u64],
    slice: usize,
) -> Arm<'a> {
    Arm::new(name, layer, move |j| {
        let mut failed = 0;
        for &key in &probes[j * slice..(j + 1) * slice] {
            failed += wrong(key, index.get(black_box(key)));
        }
        SliceOutcome {
            ops: slice as u64,
            failed,
        }
    })
}

/// An arm that calls `get_many` on 256-key batches of the slice.
pub fn get_many_arm<'a>(
    name: &'static str,
    layer: &'static str,
    index: &'a (impl Index + ?Sized),
    probes: &'a [u64],
    slice: usize,
) -> Arm<'a> {
    Arm::new(name, layer, move |j| {
        let mut failed = 0;
        for batch in probes[j * slice..(j + 1) * slice].chunks(BATCH) {
            let replies = index.get_many(black_box(batch));
            failed += u64::from(replies.len() != batch.len());
            for (&key, &reply) in batch.iter().zip(&replies) {
                failed += wrong(key, reply);
            }
        }
        SliceOutcome {
            ops: slice as u64,
            failed,
        }
    })
}

pub fn run(cfg: &RunCfg, hot: bool, trace: &mut Trace, root: Option<usize>, report: &mut Report) {
    report.guard(cfg.placement.pin_driver(), || {
        "driver thread is not pinned to the last CPU".to_string()
    });
    // A slice is ~1-2 ms of the slowest arm: short enough that the arms
    // of a step see the same machine, long enough that the two clock
    // reads around it are noise.
    let slice = cfg.scaled(if hot { 1 << 16 } else { 1 << 15 }).max(1 << 9);
    // A traced run gives half its time to the ladder's side phases.
    let share = if cfg.trace { 0.5 } else { 1.0 } / BLOCKS as f64;
    let steps = cfg.repeats(share * steps_per_second(hot, cfg.trace));
    let mut timed = Vec::new();
    let mut served = Vec::new();
    let loaded = in_blocks(
        BLOCKS,
        trace,
        root,
        report,
        |trace, span| setup(cfg, hot, trace, span),
        |loaded, trace| {
            let Loaded {
                shortcut,
                eh,
                probes,
                std_map,
                ..
            } = &*loaded;
            let before = shortcut.stats();
            let span = trace.open("measure", "bench", root);
            let mut arms = vec![
                get_arm("facade.get", "facade", shortcut, probes, slice),
                get_arm("eh.get", "exhash", eh, probes, slice),
                get_arm("std.get", "bench", std_map, probes, slice),
            ];
            if cfg.trace {
                arms.push(get_many_arm(
                    "facade.get_many",
                    "facade",
                    shortcut,
                    probes,
                    slice,
                ));
                arms.extend(ladder::read_path_arms(loaded, slice));
            }
            let slices = probes.len() / slice;
            let part = interleave(&mut arms, slices, steps, trace, span);
            drop(arms);
            trace.close(span, part.iter().map(|s| s.ops).sum());
            merge(&mut timed, part);
            served.push(served_frac(&before, &shortcut.stats()));
        },
    );
    report.count(&timed);

    let shortcut = &loaded.shortcut;
    let after = shortcut.stats();
    let served = served.iter().copied().fold(1.0, f64::min);
    report.guard(served >= 0.999, || {
        format!("shortcut_served_frac {served:.4} < 0.999 on a synced, unpressured index")
    });
    report.guard(shortcut.maint_error().is_none(), || {
        format!("mapper error: {:?}", shortcut.maint_error())
    });
    let e2e = &mut report.end_to_end;
    e2e.insert("speedup_vs_eh", ratio(&timed, "eh.get", "facade.get"));
    e2e.insert("speedup_vs_std", ratio(&timed, "std.get", "facade.get"));
    e2e.insert("mem_bytes_per_key", mem_bytes_per_key(&after));

    if cfg.trace {
        let layer = &mut report.per_layer;
        layer.insert("e2e.get_ns", series(&timed, "facade.get").quiet_ns());
        layer.insert(
            "e2e.get_many_ns",
            series(&timed, "facade.get_many").quiet_ns(),
        );
        layer.insert("e2e.shortcut_served_frac", served);
        layer.insert("core.out_of_sync_frac", f64::from(!shortcut.in_sync()));
        layer.insert("core.sync_wait_ms", loaded.sync_wait_ms);
        layer.insert("rewire.vmas_peak", after.vma.in_use as f64);
        report.structure(&after, loaded.keys.len() as u64);
        ladder::read_path_metrics(&timed, report);
        ladder::side_phases(cfg, &loaded, slice, trace, root, report);
    }

    let span = trace.open("drop", "rewire", root);
    let start = Instant::now();
    drop(loaded);
    report
        .per_layer
        .insert("rewire.drop_ms", start.elapsed().as_secs_f64() * 1e3);
    trace.close(span, 1);
}
