//! The depth ladder of the read path: the same probe stream timed at
//! successive depths through public functions, so a layer's cost is the
//! difference of two rungs and memory stalls land in the rung that
//! incurs them. Only `--trace 1` runs of `point_hot` / `point_cold`
//! climb it.

use crate::arms::{load, Report, RunCfg, SYNC_TIMEOUT};
use crate::measure::{interleave, series, Arm, Series, SliceOutcome};
use crate::point::{get_arm, wrong, Loaded};
use crate::trace::Trace;
use std::hint::black_box;
use taking_the_shortcut::core::{ShortcutNode, TraditionalNode};
use taking_the_shortcut::exhash::{dir_slot, mult_hash, BucketRef, ExtendibleHash};
use taking_the_shortcut::rewire::{PageIdx, PoolHandle, RetireList};
use taking_the_shortcut::vmsim::{AddressSpace, Mmu, VirtAddr, PAGE_SIZE};
use taking_the_shortcut::{BucketLayout, Index};

/// A private linear mapping of a pool's memory file: the addresses the
/// traditional directory's pointers would hold, obtained through the
/// pool's public handle (fd + length) instead of its private view.
struct PoolView {
    base: *mut u8,
    len: usize,
    slot_shift: u32,
}

impl PoolView {
    fn map(handle: &PoolHandle) -> PoolView {
        let len = handle.file_len();
        // SAFETY: a fresh shared mapping of a live memfd at a
        // kernel-chosen address; nothing else aliases the range.
        let base = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED,
                handle.fd(),
                0,
            )
        };
        assert!(base != libc::MAP_FAILED, "mapping the EH arm's pool file");
        PoolView {
            base: base.cast(),
            len,
            slot_shift: handle.layout().slot_shift(),
        }
    }

    fn slot_ptr(&self, page: PageIdx) -> *mut u8 {
        let offset = page.0 << self.slot_shift;
        assert!(offset < self.len, "directory slot outside the pool file");
        // SAFETY: in bounds of the mapping per the assert above.
        unsafe { self.base.add(offset) }
    }
}

impl Drop for PoolView {
    fn drop(&mut self) {
        // SAFETY: exactly the range mapped in `map`, unmapped once.
        unsafe {
            libc::munmap(self.base.cast(), self.len);
        }
    }
}

/// Slot of the EH arm's directory that `key` hashes to.
fn slot_of(eh: &ExtendibleHash, key: u64) -> usize {
    dir_slot(eh.dir_hash(key), eh.global_depth())
}

/// `ShortcutEh::get` inside one `with_shard(0, ..)`: the facade's `get`
/// minus shard routing and the per-call read lock.
fn shortcut_get_arm(loaded: &Loaded, slice: usize) -> Arm<'_> {
    let Loaded {
        shortcut, probes, ..
    } = loaded;
    Arm::new("exhash.shortcut_get", "exhash", move |j| {
        let failed = shortcut.with_shard(0, |shard| {
            let mut failed = 0;
            for &key in &probes[j * slice..(j + 1) * slice] {
                failed += wrong(key, shard.get(black_box(key)));
            }
            failed
        });
        SliceOutcome {
            ops: slice as u64,
            failed,
        }
    })
}

/// Read the first word of the bucket each probe's directory slot leads
/// to, the slot resolved by `leaf`.
fn follow_arm<'a>(
    name: &'static str,
    eh: &'a ExtendibleHash,
    probes: &'a [u64],
    slice: usize,
    leaf: impl Fn(usize) -> *mut u8 + 'a,
) -> Arm<'a> {
    Arm::new(name, "core", move |j| {
        let mut acc = 0u64;
        for &key in &probes[j * slice..(j + 1) * slice] {
            let leaf = leaf(slot_of(eh, black_box(key)));
            // SAFETY: every slot of both nodes points at the first word
            // of a live bucket of the EH arm's pool.
            acc ^= unsafe { leaf.cast::<u64>().read_volatile() };
        }
        black_box(acc);
        SliceOutcome {
            ops: slice as u64,
            failed: 0,
        }
    })
}

/// Rungs that share the main measuring call with the end-to-end arms.
pub fn read_path_arms(loaded: &Loaded, slice: usize) -> Vec<Arm<'_>> {
    let Loaded {
        shortcut,
        eh,
        probes,
        ..
    } = loaded;
    let assignments = eh
        .directory_assignments()
        .expect("EH arm directory assignments");
    let view = PoolView::map(&eh.pool_handle());
    // One pre-resolved bucket address per probe, in stream order: the
    // data miss without any directory.
    let buckets: Vec<usize> = probes
        .iter()
        .map(|&key| view.slot_ptr(assignments[slot_of(eh, key)].1) as usize)
        .collect();
    let layout: BucketLayout = eh.bucket_layout();
    let depth = eh.global_depth();
    let state = shortcut.with_shard(0, |shard| shard.state_arc());
    let pins = RetireList::new();

    vec![
        shortcut_get_arm(loaded, slice),
        Arm::new("exhash.hash", "exhash", move |j| {
            let mut acc = 0usize;
            for &key in &probes[j * slice..(j + 1) * slice] {
                acc ^= dir_slot(mult_hash(black_box(key)), depth);
            }
            black_box(acc);
            SliceOutcome {
                ops: slice as u64,
                failed: 0,
            }
        }),
        Arm::new("exhash.bucket_get", "exhash", move |j| {
            let _keep_mapped = &view;
            let mut failed = 0;
            let range = j * slice..(j + 1) * slice;
            for (&key, &bucket) in probes[range.clone()].iter().zip(&buckets[range]) {
                // SAFETY: `bucket` is the start of a live bucket slot of
                // the EH arm's pool inside `view`, which this closure
                // keeps mapped; nothing writes the arm while it is read.
                let bucket = unsafe { BucketRef::from_ptr(bucket as *mut u8, layout) };
                failed += wrong(key, bucket.get(black_box(key)));
            }
            SliceOutcome {
                ops: slice as u64,
                failed,
            }
        }),
        Arm::new("core.ticket", "core", move |_| {
            let mut failed = 0;
            for _ in 0..slice {
                failed += match state.begin_read() {
                    Some(ticket) => u64::from(!state.still_valid(black_box(ticket))),
                    None => 1,
                };
            }
            SliceOutcome {
                ops: slice as u64,
                failed,
            }
        }),
        Arm::new("rewire.pin", "rewire", move |_| {
            for _ in 0..slice {
                drop(black_box(pins.pin()));
            }
            SliceOutcome {
                ops: slice as u64,
                failed: 0,
            }
        }),
    ]
}

/// Rung differences of the main call.
pub fn read_path_metrics(timed: &[Series], report: &mut Report) {
    let ns = |name: &str| series(timed, name).quiet_ns();
    let layer = &mut report.per_layer;
    layer.insert("exhash.hash_ns", ns("exhash.hash"));
    layer.insert("exhash.bucket_get_ns", ns("exhash.bucket_get"));
    layer.insert("exhash.eh_get_ns", ns("eh.get"));
    layer.insert(
        "exhash.dir_walk_ns",
        ns("eh.get") - ns("exhash.bucket_get") - ns("exhash.hash"),
    );
    layer.insert("exhash.shortcut_get_ns", ns("exhash.shortcut_get"));
    layer.insert(
        "exhash.shard_route_ns",
        ns("facade.get") - ns("exhash.shortcut_get"),
    );
    layer.insert("core.ticket_ns", ns("core.ticket"));
    layer.insert("rewire.pin_ns", ns("rewire.pin"));
    layer.insert(
        "core.per_op_guard_ns",
        ns("exhash.shortcut_get") - ns("facade.get_many"),
    );
}

/// Steps each side phase gets per second of `--seconds`: two arms of
/// 2-4 ms a step, a fifth of the run each.
const SIDE_STEPS_PER_SECOND: f64 = 60.0;

/// The rungs that need structures of their own — built, timed and
/// dropped one after the other, because each costs one mapping per
/// directory slot and the process has room for about three.
pub fn side_phases(
    cfg: &RunCfg,
    loaded: &Loaded,
    slice: usize,
    trace: &mut Trace,
    root: Option<usize>,
    report: &mut Report,
) {
    let Loaded {
        eh, keys, probes, ..
    } = loaded;
    let slices = probes.len() / slice;

    // Routing + lock cost at 2^2 shards (the server's default), against
    // the unsharded inner `get` timed in the same call.
    let span = trace.open("twin_s2", "bench", root);
    let builder = cfg.shortcut_builder(keys.len()).shards(2);
    let mut twin = cfg
        .placement
        .off_driver(|| builder.build())
        .expect("sharded twin construction");
    load(&mut twin, keys);
    assert!(twin.wait_sync(SYNC_TIMEOUT), "sharded twin never synced");
    let mut arms = vec![
        get_arm("twin.get", "facade", &twin, probes, slice),
        shortcut_get_arm(loaded, slice),
    ];
    let timed = interleave(
        &mut arms,
        slices,
        cfg.repeats(SIDE_STEPS_PER_SECOND),
        trace,
        span,
    );
    drop(arms);
    report.count(&timed);
    report.per_layer.insert(
        "exhash.shard_route_ns.s2",
        series(&timed, "twin.get").quiet_ns() - series(&timed, "exhash.shortcut_get").quiet_ns(),
    );
    drop(twin);
    trace.close(span, 1);

    // One implicit indirection against one explicit one, over the same
    // slots in stream order (Figure 1 of the paper, on this index).
    let span = trace.open("follow", "bench", root);
    let handle = eh.pool_handle();
    let assignments = eh
        .directory_assignments()
        .expect("EH arm directory assignments");
    let view = PoolView::map(&handle);
    let mut node = ShortcutNode::for_pool(assignments.len(), &handle, true)
        .expect("reserving the follow rung's shortcut node");
    node.set_batch(&handle, &assignments)
        .expect("rewiring the follow rung's shortcut node");
    node.populate();
    let mut traditional = TraditionalNode::new(assignments.len());
    for &(slot, page) in &assignments {
        traditional.set_slot(slot, view.slot_ptr(page));
    }
    let mut arms = vec![
        follow_arm("core.shortcut_follow", eh, probes, slice, |slot| {
            node.slot_ptr(slot)
        }),
        follow_arm("core.trad_follow", eh, probes, slice, |slot| {
            traditional.get(slot)
        }),
    ];
    let timed = interleave(
        &mut arms,
        slices,
        cfg.repeats(SIDE_STEPS_PER_SECOND),
        trace,
        span,
    );
    drop(arms);
    report.count(&timed);
    let layer = &mut report.per_layer;
    layer.insert(
        "core.shortcut_follow_ns",
        series(&timed, "core.shortcut_follow").quiet_ns(),
    );
    layer.insert(
        "core.trad_follow_ns",
        series(&timed, "core.trad_follow").quiet_ns(),
    );
    trace.close(span, 1);

    simulate(cfg, eh, &assignments, probes, trace, root, report);
}

/// Replay the first 2^16 probes through the simulated MMU in both
/// layouts: exact page-walk steps and TLB misses per lookup.
fn simulate(
    cfg: &RunCfg,
    eh: &ExtendibleHash,
    assignments: &[(usize, PageIdx)],
    probes: &[u64],
    trace: &mut Trace,
    root: Option<usize>,
    report: &mut Report,
) {
    let span = trace.open("vmsim.replay", "vmsim", root);
    let slots = assignments.len();
    let pages = assignments.iter().map(|&(_, p)| p.0).max().unwrap_or(0) + 1;
    let mut space = AddressSpace::new();
    // Traditional: the pointer array (8 B per slot) and the pool's
    // linear view. Shortcut: one page per slot rewired onto the file.
    let dir_pages = (slots * 8).div_ceil(PAGE_SIZE as usize);
    let dir = space.mmap_anon(dir_pages);
    for p in 0..dir_pages {
        space.populate(dir.vpn().add(p as u64)).expect("populate");
    }
    let file = space.create_file();
    space.resize_file(file, pages).expect("resize");
    let linear = space.mmap_anon(pages);
    space
        .mmap_file_fixed(linear, pages, file, 0, true)
        .expect("linear view");
    let shortcut = space.mmap_anon(slots);
    for &(slot, page) in assignments {
        let at = VirtAddr(shortcut.0 + slot as u64 * PAGE_SIZE);
        space
            .mmap_file_fixed(at, 1, file, page.0, true)
            .expect("rewire");
    }
    let lookups = cfg.scaled(1 << 16).min(probes.len());
    let (mut via_pointer, mut via_shortcut) = (Mmu::with_defaults(), Mmu::with_defaults());
    for &key in &probes[..lookups] {
        let slot = slot_of(eh, key);
        let page = assignments[slot].1 .0 as u64;
        via_pointer
            .access(&mut space, VirtAddr(dir.0 + slot as u64 * 8))
            .expect("directory access");
        via_pointer
            .access(&mut space, VirtAddr(linear.0 + page * PAGE_SIZE))
            .expect("bucket access");
        via_shortcut
            .access(&mut space, VirtAddr(shortcut.0 + slot as u64 * PAGE_SIZE))
            .expect("shortcut access");
    }
    let per_lookup = |count: u64| count as f64 / lookups as f64;
    let layer = &mut report.per_layer;
    layer.insert(
        "vmsim.walk_steps_per_lookup.trad",
        per_lookup(via_pointer.stats.walk_touches),
    );
    layer.insert(
        "vmsim.walk_steps_per_lookup.shortcut",
        per_lookup(via_shortcut.stats.walk_touches),
    );
    layer.insert(
        "vmsim.tlb_miss_per_lookup.trad",
        per_lookup(via_pointer.stats.tlb_misses),
    );
    layer.insert(
        "vmsim.tlb_miss_per_lookup.shortcut",
        per_lookup(via_shortcut.stats.tlb_misses),
    );
    trace.close(span, lookups as u64);
}
