//! Tests of the mapper **pass** (`maintenance.rs`): a wake's updates go in
//! as one zapped batch and answer like one-by-one application, a failing
//! vectored call changes nothing but speed, and a demand gets a pass that
//! started after it without a tick elapsing.

use super::*;
use proptest::prelude::*;
use shortcut_rewire::{PagePool, PoolConfig, VmaBudget, ZapRange, ZAP_BATCH};
use std::cell::Cell;
use std::sync::atomic::AtomicBool;

/// Spin (yielding) until `cond` holds; a generous bound turns a hang into
/// a failure. No sleep: nothing here may depend on a tick.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

thread_local! {
    static ZAP_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn zap_calls() -> u64 {
    ZAP_CALLS.with(|c| c.get())
}

fn count_call() {
    ZAP_CALLS.with(|c| c.set(c.get() + 1));
}

/// The process's vectored call where it has one, a stand-in that advises
/// everything and drops nothing elsewhere; counted per calling thread.
///
/// # Safety
///
/// As [`ZapCall`].
unsafe fn counted(ranges: &[ZapRange]) -> isize {
    count_call();
    match shortcut_rewire::zap_call() {
        // SAFETY: the caller's obligation, passed on.
        Some(real) => unsafe { real(ranges) },
        None => ranges.iter().map(|r| r.iov_len).sum::<usize>() as isize,
    }
}

/// `EINVAL` / `EPERM` / `ENOSYS`: the kernel refuses the call.
///
/// # Safety
///
/// None: it touches nothing.
unsafe fn refused(_: &[ZapRange]) -> isize {
    count_call();
    -1
}

/// The kernel stopped after the first range.
///
/// # Safety
///
/// None: it touches nothing.
unsafe fn short(ranges: &[ZapRange]) -> isize {
    count_call();
    ranges[0].iov_len as isize
}

const PAGES: usize = 32;

/// An engine over a pool of [`PAGES`] stamped pages.
struct Rig {
    pool: PagePool,
    pages: Vec<PageIdx>,
    state: Arc<SharedDirectoryState>,
    metrics: Arc<MaintMetrics>,
    eng: MapperEngine,
}

fn stamp_of(page: PageIdx) -> u64 {
    0x5eed_0000 + page.0 as u64
}

fn rig(limit: Option<usize>, compaction: bool, zap: Option<ZapCall>) -> Rig {
    let mut pool = PagePool::new(PoolConfig {
        initial_pages: 0,
        min_growth_pages: PAGES,
        view_capacity_pages: 1024,
        vma_budget: limit.map(VmaBudget::with_limit),
        ..PoolConfig::default()
    })
    .unwrap();
    let run = pool.alloc_run(PAGES).unwrap();
    let pages: Vec<PageIdx> = (0..PAGES).map(|i| PageIdx(run.0 + i)).collect();
    for &p in &pages {
        // SAFETY: page_ptr of a slot just allocated from the live pool.
        unsafe {
            *(pool.page_ptr(p) as *mut u64) = stamp_of(p);
        }
    }
    let state = Arc::new(SharedDirectoryState::new());
    let metrics = Arc::new(MaintMetrics::default());
    let cfg = MaintConfig {
        compaction: if compaction {
            CompactionPolicy::on()
        } else {
            CompactionPolicy::disabled()
        },
        ..MaintConfig::default()
    };
    let mut eng = MapperEngine::new(pool.handle(), Arc::clone(&state), Arc::clone(&metrics), cfg);
    eng.zap = zap;
    Rig {
        pool,
        pages,
        state,
        metrics,
        eng,
    }
}

fn create(dir: &[PageIdx]) -> MaintRequest {
    MaintRequest::Create {
        slots: dir.len(),
        assignments: dir.iter().copied().enumerate().collect(),
    }
}

impl Rig {
    /// `req` as one relay of its own.
    fn relay(&self, req: MaintRequest) {
        self.eng.inbox_lock().relay([req]);
    }

    /// [`Rig::relay`] of a split's update.
    fn update(&self, slot: usize, ppage: PageIdx) {
        self.relay(MaintRequest::Update {
            slots: tests::one(slot),
            ppage,
        });
    }

    /// What a lookup of each published slot answers: the stamp of the
    /// page behind it, read through the published base once it is served.
    fn answers(&self) -> Vec<u64> {
        assert!(self.state.in_sync(), "not in sync");
        self.eng.inbox_lock().refresh_serving();
        let t = self.state.begin_read().expect("in sync");
        let node = self.eng.current().expect("published");
        assert_eq!(t.base, node.base());
        let answers = (0..node.slots())
            // SAFETY: slot_ptr of a wired slot of the live node, which
            // nothing retires while this borrow of the engine lasts.
            .map(|s| unsafe { *(node.slot_ptr(s) as *const u64) })
            .collect();
        assert!(self.state.still_valid(t));
        answers
    }
}

#[test]
fn a_wake_of_2000_updates_is_one_zapped_batch_and_one_publish() {
    const SLOTS: usize = 1024;
    const DISTINCT: usize = 700;
    let mut r = rig(None, false, Some(counted));
    let mut dir = vec![r.pages[0]; SLOTS];
    r.relay(create(&dir));
    r.eng.pass().unwrap();
    let before = r.metrics.snapshot();
    let calls_before = zap_calls();
    // 37 is a unit mod 700: 2000 updates land on exactly 700 slots, the
    // later ones overwriting the earlier.
    for i in 0..2000 {
        let (slot, page) = (i * 37 % DISTINCT, r.pages[i * 13 % PAGES]);
        dir[slot] = page;
        r.update(slot, page);
    }
    assert_eq!(r.eng.pass().unwrap(), 2000);
    let after = r.metrics.snapshot();
    assert_eq!(
        zap_calls() - calls_before,
        DISTINCT.div_ceil(ZAP_BATCH) as u64
    );
    assert_eq!(after.slots_zapped - before.slots_zapped, DISTINCT as u64);
    assert_eq!(after.slots_rewired - before.slots_rewired, DISTINCT as u64);
    assert_eq!(after.updates_applied - before.updates_applied, 2000);
    assert_eq!(
        after.pages_populated - before.pages_populated,
        DISTINCT as u64
    );
    // One batch is one publish, of the last relay's version.
    assert_eq!(after.update_batches - before.update_batches, 1);
    assert_eq!(r.state.shortcut_version(), r.state.traditional_version());
    let want: Vec<u64> = dir.iter().map(|&p| stamp_of(p)).collect();
    assert_eq!(r.answers(), want);
}

#[test]
fn a_failing_vectored_call_costs_speed_and_nothing_else() {
    // The reference run zaps; the others lose the call at construction
    // (unsupported), at its first use (refused), or half way (short).
    let script = |r: &mut Rig| {
        let mut dir = vec![r.pages[1]; 64];
        r.relay(create(&dir));
        r.eng.pass().unwrap();
        for pass in 0..3 {
            for i in 0..100 {
                let (slot, page) = ((i * 29 + pass) % 64, r.pages[(i * 7 + pass) % PAGES]);
                dir[slot] = page;
                r.update(slot, page);
            }
            r.eng.pass().unwrap();
        }
        dir.iter().map(|&p| stamp_of(p)).collect::<Vec<u64>>()
    };
    let mut reference = rig(None, false, Some(counted));
    let want = script(&mut reference);
    assert_eq!(reference.answers(), want);
    let zapped = reference.metrics.snapshot();
    assert!(zapped.slots_zapped > 0);
    for (name, zap) in [
        ("unsupported", None),
        ("refused", Some(refused as ZapCall)),
        ("short", Some(short as ZapCall)),
    ] {
        let calls_before = zap_calls();
        let mut r = rig(None, false, zap);
        assert_eq!(script(&mut r), want);
        assert_eq!(r.answers(), want, "{name}");
        let s = r.metrics.snapshot();
        assert_eq!(s.slots_zapped, 0, "{name}");
        assert_eq!(s.updates_applied, zapped.updates_applied, "{name}");
        assert_eq!(s.slots_rewired, zapped.slots_rewired, "{name}");
        assert_eq!(s.update_batches, zapped.update_batches, "{name}");
        assert_eq!(
            r.eng.current().unwrap().vma_estimate(),
            reference.eng.current().unwrap().vma_estimate(),
            "{name}"
        );
        // The first failure is the last attempt.
        assert_eq!(
            zap_calls() - calls_before,
            u64::from(zap.is_some()),
            "{name}"
        );
    }
}

/// A scripted history of one traditional directory, as requests.
#[derive(Debug, Clone, Copy)]
enum Scenario {
    /// Doublings and updates under no pressure.
    Plain,
    /// A reader pin stalls reclamation under a tight budget: creates are
    /// deferred and updates fold into them until the pin drops.
    Deferred,
    /// Published one level coarser than the directory (`published_shift`
    /// 1): updates arrive at fine slots, and those of the first half land.
    Coarse,
}

/// Run `steps` through an engine, one relay each, a pass every `pass_len`
/// relays. Returns what the published slots answer, what the directory
/// says they should, the node's VMA estimate and the counters.
fn run_script(
    scenario: Scenario,
    steps: &[(u8, u16, u8)],
    pass_len: usize,
) -> (Vec<u64>, Vec<u64>, usize, MaintSnapshot) {
    let (limit, compaction, shift) = match scenario {
        Scenario::Plain => (None, false, 0),
        Scenario::Deferred => (Some(96), false, 0),
        Scenario::Coarse => (Some(10), true, 1),
    };
    let mut r = rig(limit, compaction, Some(counted));
    let retire = Arc::clone(r.pool.handle().retire_list());
    let pin = matches!(scenario, Scenario::Deferred).then(|| retire.pin());
    // Coarse: 16 slots in suffix order, pages at their suffix, the upper
    // half's odd slots on pages of their own: 9 runs and the pool's 2 do
    // not fit 10 mappings at full depth, and the first half publishes as
    // one run, with room to fragment into 8.
    let mut dir: Vec<PageIdx> = match scenario {
        Scenario::Coarse => (0..16)
            .map(|s| r.pages[if s < 8 || s % 2 == 0 { s % 8 } else { 16 + s }])
            .collect(),
        _ => vec![r.pages[0]; 4],
    };
    // What each published slot maps: the directory's first `1/2^shift`.
    let mut published: Vec<PageIdx> = dir[..dir.len() >> shift].to_vec();
    r.relay(create(&dir));
    for (i, &(kind, a, b)) in steps.iter().enumerate() {
        if (i + 1) % pass_len == 0 {
            r.eng.pass().unwrap();
        }
        if kind >= 236 && dir.len() < 64 && shift == 0 {
            dir = [&dir[..], &dir[..]].concat();
            published = dir.clone();
            r.relay(create(&dir));
        } else {
            let (slot, page) = (a as usize % dir.len(), r.pages[b as usize % PAGES]);
            dir[slot] = page;
            // A fine slot past the published ones moves none of them.
            if let Some(coarse) = published.get_mut(slot) {
                *coarse = page;
            }
            r.update(slot, page);
        }
    }
    r.eng.pass().unwrap();
    drop(pin);
    r.eng.reclaim_tick().unwrap();
    (
        r.answers(),
        published.iter().map(|&p| stamp_of(p)).collect(),
        r.eng.current().expect("published").vma_estimate(),
        r.metrics.snapshot(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn a_pass_answers_like_one_request_at_a_time(
        steps in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 1..400),
        pass_len in 2usize..50,
    ) {
        for scenario in [Scenario::Plain, Scenario::Deferred, Scenario::Coarse] {
            let (one_by_one, want, vmas, _) = run_script(scenario, &steps, 1);
            prop_assert_eq!(&one_by_one, &want, "{:?} one by one", scenario);
            for len in [pass_len, usize::MAX] {
                let (batched, _, batched_vmas, s) = run_script(scenario, &steps, len);
                prop_assert_eq!(&batched, &want, "{:?} passes of {}", scenario, len);
                prop_assert_eq!(batched_vmas, vmas);
                prop_assert_eq!(s.creates_coarse > 0, matches!(scenario, Scenario::Coarse));
            }
        }
    }
}

fn parked_maintainer(pool: &PagePool, zap: Option<ZapCall>) -> Maintainer {
    let mut engine = MapperEngine::new(
        pool.handle(),
        Arc::new(SharedDirectoryState::new()),
        Arc::new(MaintMetrics::default()),
        MaintConfig::default(),
    );
    engine.zap = zap;
    // No tick comes to anyone's rescue within a test's lifetime.
    let m = Maintainer::start(engine, Duration::from_secs(3600));
    // Its first (empty) pass bumps the count in the section that parks it.
    wait_until("the first pass", || m.passes() == 1);
    m
}

#[test]
fn a_demand_on_a_parked_mapper_gets_one_pass_and_no_tick() {
    let r = rig(None, false, None);
    let m = parked_maintainer(&r.pool, Some(counted));
    m.inbox_lock().relay([create(&[r.pages[0], r.pages[1]])]);
    assert_eq!(m.passes(), 1, "a lone request wakes nobody");
    assert!(m.wait_sync(Duration::from_secs(60)), "demand went unheard");
    assert_eq!(m.passes(), 2, "the pass the demand started");
    assert_eq!(m.metrics().creates_applied, 1);
    // In sync: nothing to demand, nothing runs.
    assert!(m.wait_sync(Duration::from_secs(60)));
    assert_eq!(m.passes(), 2);
}

static GATE_ENTERED: AtomicBool = AtomicBool::new(false);
static GATE_OPEN: AtomicBool = AtomicBool::new(false);

/// Holds the mapper inside its pass until the test opens the gate.
///
/// # Safety
///
/// None: it touches nothing.
unsafe fn gated(ranges: &[ZapRange]) -> isize {
    GATE_ENTERED.store(true, Ordering::Release);
    while !GATE_OPEN.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    ranges.iter().map(|r| r.iov_len).sum::<usize>() as isize
}

#[test]
fn a_demand_made_mid_pass_is_answered_by_the_next_pass() {
    let r = rig(None, false, None);
    let m = parked_maintainer(&r.pool, Some(gated));
    let update = |slot: usize, ppage: PageIdx| {
        m.inbox_lock().relay([MaintRequest::Update {
            slots: tests::one(slot),
            ppage,
        }]);
    };
    m.inbox_lock().relay([create(&[r.pages[0]; 2])]);
    assert!(m.wait_sync(Duration::from_secs(60)));
    assert_eq!(m.passes(), 2);
    std::thread::scope(|s| {
        // Pass 3 takes the first update and stops at the gate.
        update(0, r.pages[1]);
        let first = s.spawn(|| m.wait_sync(Duration::from_secs(60)));
        wait_until("the mapper at the gate", || {
            GATE_ENTERED.load(Ordering::Acquire)
        });
        // Queued behind a pass that already has its batch.
        update(1, r.pages[2]);
        let second = s.spawn(|| m.wait_sync(Duration::from_secs(60)));
        wait_until("the second demand", || m.shared.inbox().demand);
        assert_eq!(m.passes(), 2, "pass 3 is still at the gate");
        GATE_OPEN.store(true, Ordering::Release);
        assert!(first.join().unwrap());
        assert!(second.join().unwrap());
    });
    // Pass 3 ended out of sync (the second update had bumped the
    // version); the standing demand kept the mapper from parking, and
    // pass 4 — begun after that demand — applied it.
    assert_eq!(m.passes(), 4);
    assert_eq!(m.metrics().update_batches, 2);
    assert!(m.state().in_sync());
    let t = m.state().begin_read().unwrap();
    // SAFETY: t.base is the directory the ticket published; nothing
    // retires it while `m` lives.
    unsafe {
        assert_eq!(*(t.base as *const u64), stamp_of(r.pages[1]));
        assert_eq!(
            *(t.base.add(shortcut_rewire::page_size()) as *const u64),
            stamp_of(r.pages[2])
        );
    }
}

#[test]
fn the_relay_that_crosses_the_backlog_wakes_a_parked_mapper_once() {
    let r = rig(None, false, None);
    let m = parked_maintainer(&r.pool, Some(counted));
    m.inbox_lock().relay([create(&[r.pages[0]; 1024])]);
    assert!(m.wait_sync(Duration::from_secs(60)));
    let before = m.metrics();
    // One relay: one bump and the requests, under one hold of the lock.
    let relay = |slots: std::ops::Range<usize>| {
        m.inbox_lock().relay(slots.map(|slot| MaintRequest::Update {
            slots: tests::one(slot),
            ppage: r.pages[1 + slot % 7],
        }));
    };
    relay(0..WAKE_BACKLOG - 1);
    assert!(!m.shared.inbox().demand, "one short of a backlog");
    assert_eq!(m.passes(), before.passes);
    relay(WAKE_BACKLOG - 1..WAKE_BACKLOG + 1);
    wait_until("the pass the backlog started", || {
        m.passes() == before.passes + 1
    });
    // One wake took everything queued, as one batch; then it parked.
    assert!(m.state().in_sync());
    let after = m.metrics();
    assert_eq!(after.busy_polls - before.busy_polls, 1);
    assert_eq!(after.update_batches - before.update_batches, 1);
    assert_eq!(
        after.updates_applied - before.updates_applied,
        WAKE_BACKLOG as u64 + 1
    );
    relay(0..3);
    assert_eq!(m.pending(), 3, "below the backlog nothing wakes it");
    assert_eq!(m.passes(), before.passes + 1);
}
