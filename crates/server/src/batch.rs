//! Request batch aggregation: submission lanes, reply slots, and the
//! executor loop that funnels many connections' requests into the
//! index's batched entry points.
//!
//! The flow is the whole point of this crate:
//!
//! 1. Per-connection threads decode requests and push them as
//!    [`Op`]s into a **submission lane** ([`Lane`]): an MPSC queue with a
//!    condvar wakeup. A connection always pushes into the same lane
//!    (`conn_id % lanes`), so one executor owns all of a connection's
//!    operations and **per-connection program order is preserved** —
//!    `SET 7 70` then `GET 7` on one connection always observes the
//!    write. (A single global queue drained by racing executors would
//!    reorder exactly that pair.)
//! 2. One executor thread per lane drains up to
//!    [`crate::ServerConfig::max_batch`] ops at a time — waiting up to
//!    [`crate::ServerConfig::batch_window`] to aggregate company for a
//!    lone op — and splits the drained FIFO into **maximal homogeneous
//!    runs** (reads / inserts / removes). Runs execute in order, so the
//!    FIFO semantics survive; within a run the per-request cost is
//!    amortized:
//!    * a read run becomes **one** `get_many_into` batch — one read
//!      section (a reader pin and one load of the admission word) per
//!      shard the run touches, entered once for every `GET`/`MGET` in the
//!      run and walked in request order, answered into a buffer the
//!      executor keeps ([`RunBuffers`]);
//!    * a write run becomes **one** `insert_batch_shared` — one write
//!      section per shard it touches, applied in request order, so a
//!      failing `SET` leaves exactly the run's earlier ones applied; other
//!      executors write the shards it does not touch in parallel;
//!    * a remove run becomes **one** `remove_batch_shared_into`.
//! 3. Each op carries its [`ReplySlot`]; the executor fills it, and the
//!    connection thread — which holds one read's slots in submission
//!    order — waits for each, encodes the replies in order and writes
//!    them at once.

use crate::protocol::Reply;
use shortcut_rewire::sync::{AtomicBool, AtomicU64, Condvar, Mutex, Ordering};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use taking_the_shortcut::ShortcutIndex;

/// A one-shot rendezvous for one request's reply: the executor (or the
/// connection thread itself, for immediate replies) fills it once; the
/// connection thread blocks until it is filled.
#[derive(Debug, Default)]
pub struct ReplySlot {
    state: Mutex<Option<Reply>>,
    cv: Condvar,
}

impl ReplySlot {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Fill the slot (first write wins; a second fill is ignored so a
    /// shutdown path racing an executor cannot panic).
    pub fn fill(&self, reply: Reply) {
        let mut state = self.state.lock().unwrap();
        if state.is_none() {
            *state = Some(reply);
            self.cv.notify_all();
        }
    }

    /// Block until the slot is filled and take the reply.
    pub fn wait(&self) -> Reply {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(reply) = state.take() {
                return reply;
            }
            state = self.cv.wait(state).unwrap();
        }
    }
}

/// Deliberately-broken reply-slot variants, compiled only for the model
/// tests: each reintroduces a classic condvar bug so
/// `tests/loom_replyslot.rs` can prove the checker flags it. Never call
/// these outside that suite.
#[cfg(feature = "loomish")]
impl ReplySlot {
    /// Seeded bug: the double-fill tolerance removed. A shutdown path
    /// racing an executor trips the assertion — exactly the crash the
    /// `is_none` guard in [`ReplySlot::fill`] exists to prevent.
    pub fn fill_seeded_assert_empty(&self, reply: Reply) {
        let mut state = self.state.lock().unwrap();
        assert!(state.is_none(), "double fill");
        *state = Some(reply);
        self.cv.notify_all();
    }

    /// Seeded bug: the emptiness check released before waiting. A fill
    /// that lands in the gap notifies nobody, and the subsequent wait has
    /// no filler left to wake it — the lost wakeup shows up as a model
    /// deadlock.
    pub fn wait_seeded_check_then_wait(&self) -> Reply {
        loop {
            if let Some(reply) = self.state.lock().unwrap().take() {
                return reply;
            }
            let state = self.state.lock().unwrap();
            drop(self.cv.wait(state).unwrap());
        }
    }
}

/// One batched operation, tagged with the slot its reply goes to.
#[derive(Debug)]
pub enum Op {
    /// `GET` (one key) or `MGET` (many): answered from one `get_many`
    /// spanning the whole read run.
    Read {
        keys: Vec<u64>,
        /// `GET` replies bulk-or-nil; `MGET` replies an array.
        single: bool,
        slot: Arc<ReplySlot>,
    },
    /// `SET`: one entry of the run's `insert_batch_shared`.
    Write {
        key: u64,
        value: u64,
        slot: Arc<ReplySlot>,
    },
    /// `DEL`: keys join the run's `remove_batch_shared`; the reply is
    /// the removed count, Redis-style.
    Remove {
        keys: Vec<u64>,
        slot: Arc<ReplySlot>,
    },
}

/// An MPSC submission lane: connections push, one executor drains.
#[derive(Debug, Default)]
pub struct Lane {
    q: Mutex<VecDeque<Op>>,
    cv: Condvar,
}

impl Lane {
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue an op and wake the lane's executor.
    pub fn push(&self, op: Op) {
        self.q.lock().unwrap().push_back(op);
        self.cv.notify_one();
    }

    /// Drain up to `max` ops. Blocks (in bounded slices, so `stop` is
    /// honored promptly) until at least one op is available; once one
    /// is, waits up to `window` more for company — that wait is the
    /// aggregation knob: longer windows build bigger batches at the cost
    /// of added latency. Returns an empty vec only when `stop` is set
    /// and the lane is empty (the drain-then-exit contract).
    pub fn drain(&self, max: usize, window: Duration, stop: &AtomicBool) -> Vec<Op> {
        let mut q = self.q.lock().unwrap();
        while q.is_empty() {
            if stop.load(Ordering::Acquire) {
                return Vec::new();
            }
            let (guard, _) = self.cv.wait_timeout(q, Duration::from_millis(50)).unwrap();
            q = guard;
        }
        if q.len() < max && !window.is_zero() && !stop.load(Ordering::Acquire) {
            // One bounded aggregation nap; whatever arrived joins the batch.
            let (guard, _) = self.cv.wait_timeout(q, window).unwrap();
            q = guard;
        }
        let take = q.len().min(max);
        q.drain(..take).collect()
    }
}

/// Server-wide counters (all monotone; INFO renders them).
#[derive(Debug, Default)]
pub struct ServerStats {
    pub connections_accepted: AtomicU64,
    pub connections_closed: AtomicU64,
    pub commands: AtomicU64,
    pub protocol_errors: AtomicU64,
    /// One per `get_many` call (= one read run).
    pub read_batches: AtomicU64,
    /// `GET`/`MGET` commands aggregated into read runs.
    pub read_ops: AtomicU64,
    /// Keys those commands carried (≥ `read_ops`; `MGET` adds many).
    pub read_keys: AtomicU64,
    /// One per `insert_batch_shared` call (= one write run).
    pub write_batches: AtomicU64,
    pub write_ops: AtomicU64,
    /// One per `remove_batch_shared` call (= one remove run).
    pub del_batches: AtomicU64,
    pub del_keys: AtomicU64,
}

impl ServerStats {
    /// Mean keys per read batch — the headline aggregation gauge
    /// (`1.0` means batching never engaged).
    pub fn mean_read_batch_keys(&self) -> f64 {
        let batches = self.read_batches.load(Ordering::Relaxed);
        if batches == 0 {
            0.0
        } else {
            self.read_keys.load(Ordering::Relaxed) as f64 / batches as f64
        }
    }

    /// Mean `GET`/`MGET` commands per read batch.
    pub fn mean_read_batch_ops(&self) -> f64 {
        let batches = self.read_batches.load(Ordering::Relaxed);
        if batches == 0 {
            0.0
        } else {
            self.read_ops.load(Ordering::Relaxed) as f64 / batches as f64
        }
    }
}

/// Execute one drained FIFO batch on fresh buffers. An executor loop
/// keeps a [`RunBuffers`] and calls [`RunBuffers::execute`] instead.
pub fn execute_batch(index: &ShortcutIndex, stats: &ServerStats, ops: Vec<Op>) {
    RunBuffers::default().execute(index, stats, ops);
}

/// What one run of a drained batch is gathered into and answered from.
/// An executor owns one for its lifetime, so a steady-state run allocates
/// nothing: the index's `_into` entry points reuse `answers`, and the
/// gathering vectors keep their capacity.
#[derive(Debug, Default)]
pub struct RunBuffers {
    reads: Vec<(Vec<u64>, bool, Arc<ReplySlot>)>,
    writes: Vec<(u64, u64, Arc<ReplySlot>)>,
    removes: Vec<(Vec<u64>, Arc<ReplySlot>)>,
    /// The run's keys (reads, removes) flattened in FIFO order.
    keys: Vec<u64>,
    /// The run's entries (writes) in FIFO order.
    entries: Vec<(u64, u64)>,
    /// `answers[i]` answers `keys[i]`.
    answers: Vec<Option<u64>>,
}

impl RunBuffers {
    /// Execute one drained FIFO batch: split it into maximal homogeneous
    /// runs and drive each run through the matching batched index entry
    /// point.
    pub fn execute(&mut self, index: &ShortcutIndex, stats: &ServerStats, ops: Vec<Op>) {
        // `kind` of the run currently being accumulated: 0 reads, 1
        // writes, 2 removes. A kind switch flushes the previous run,
        // preserving the drained FIFO order across runs.
        let mut current: Option<u8> = None;
        for op in ops {
            let kind = match op {
                Op::Read { .. } => 0u8,
                Op::Write { .. } => 1,
                Op::Remove { .. } => 2,
            };
            if current.is_some() && current != Some(kind) {
                self.flush_run(index, stats);
            }
            current = Some(kind);
            match op {
                Op::Read { keys, single, slot } => self.reads.push((keys, single, slot)),
                Op::Write { key, value, slot } => self.writes.push((key, value, slot)),
                Op::Remove { keys, slot } => self.removes.push((keys, slot)),
            }
        }
        self.flush_run(index, stats);
    }

    /// Execute whichever single run is pending (at most one of the three
    /// gathering vectors is non-empty between flushes).
    fn flush_run(&mut self, index: &ShortcutIndex, stats: &ServerStats) {
        let RunBuffers {
            reads,
            writes,
            removes,
            keys,
            entries,
            answers,
        } = self;
        if !reads.is_empty() {
            keys.clear();
            keys.extend(reads.iter().flat_map(|(keys, _, _)| keys));
            index.get_many_into(keys, answers);
            stats.read_batches.fetch_add(1, Ordering::Relaxed);
            stats
                .read_ops
                .fetch_add(reads.len() as u64, Ordering::Relaxed);
            stats
                .read_keys
                .fetch_add(keys.len() as u64, Ordering::Relaxed);
            let mut at = 0;
            for (keys, single, slot) in reads.drain(..) {
                let mine = &answers[at..at + keys.len()];
                at += keys.len();
                let reply = if single {
                    match mine[0] {
                        Some(v) => Reply::bulk_u64(v),
                        None => Reply::Nil,
                    }
                } else {
                    Reply::Array(
                        mine.iter()
                            .map(|a| match a {
                                Some(v) => Reply::bulk_u64(*v),
                                None => Reply::Nil,
                            })
                            .collect(),
                    )
                };
                slot.fill(reply);
            }
        } else if !writes.is_empty() {
            entries.clear();
            entries.extend(writes.iter().map(|&(k, v, _)| (k, v)));
            let result = index.insert_batch_shared(entries);
            stats.write_batches.fetch_add(1, Ordering::Relaxed);
            stats
                .write_ops
                .fetch_add(entries.len() as u64, Ordering::Relaxed);
            for (_, _, slot) in writes.drain(..) {
                // On a batch failure every member reports it: per-shard
                // applied prefixes are not attributable to individual
                // entries from out here, and a spurious error beats a
                // spurious OK. (Insert only fails when the pool/directory
                // cannot grow — the server equivalent of OOM.)
                slot.fill(match &result {
                    Ok(()) => Reply::Simple("OK"),
                    Err(e) => Reply::Error(format!("ERR storage: {e}")),
                });
            }
        } else if !removes.is_empty() {
            keys.clear();
            keys.extend(removes.iter().flat_map(|(keys, _)| keys));
            let result = index.remove_batch_shared_into(keys, answers);
            stats.del_batches.fetch_add(1, Ordering::Relaxed);
            stats
                .del_keys
                .fetch_add(keys.len() as u64, Ordering::Relaxed);
            match result {
                Ok(()) => {
                    let mut at = 0;
                    for (keys, slot) in removes.drain(..) {
                        let removed = answers[at..at + keys.len()]
                            .iter()
                            .filter(|a| a.is_some())
                            .count();
                        at += keys.len();
                        slot.fill(Reply::Int(removed as i64));
                    }
                }
                Err(e) => {
                    let msg = format!("ERR storage: {e}");
                    for (_, slot) in removes.drain(..) {
                        slot.fill(Reply::Error(msg.clone()));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> ShortcutIndex {
        ShortcutIndex::builder()
            .capacity(10_000)
            .vma_budget(100_000)
            .build()
            .unwrap()
    }

    fn read_op(keys: &[u64]) -> (Op, Arc<ReplySlot>) {
        let slot = ReplySlot::new();
        (
            Op::Read {
                keys: keys.to_vec(),
                single: keys.len() == 1,
                slot: Arc::clone(&slot),
            },
            slot,
        )
    }

    #[test]
    fn homogeneous_runs_preserve_fifo_semantics() {
        let idx = index();
        let stats = ServerStats::default();
        // SET 1 10, SET 2 20, GET 1, DEL 1, GET 1, GET 2 — one batch.
        let slots: Vec<Arc<ReplySlot>> = {
            let s1 = ReplySlot::new();
            let s2 = ReplySlot::new();
            let (g1, gs1) = read_op(&[1]);
            let d = ReplySlot::new();
            let (g2, gs2) = read_op(&[1]);
            let (g3, gs3) = read_op(&[2]);
            execute_batch(
                &idx,
                &stats,
                vec![
                    Op::Write {
                        key: 1,
                        value: 10,
                        slot: Arc::clone(&s1),
                    },
                    Op::Write {
                        key: 2,
                        value: 20,
                        slot: Arc::clone(&s2),
                    },
                    g1,
                    Op::Remove {
                        keys: vec![1],
                        slot: Arc::clone(&d),
                    },
                    g2,
                    g3,
                ],
            );
            vec![s1, s2, gs1, d, gs2, gs3]
        };
        assert_eq!(slots[0].wait(), Reply::Simple("OK"));
        assert_eq!(slots[1].wait(), Reply::Simple("OK"));
        assert_eq!(
            slots[2].wait(),
            Reply::bulk_u64(10),
            "GET after SET sees it"
        );
        assert_eq!(slots[3].wait(), Reply::Int(1));
        assert_eq!(slots[4].wait(), Reply::Nil, "GET after DEL misses");
        assert_eq!(slots[5].wait(), Reply::bulk_u64(20));
        // 3 GETs in 2 read runs (split by the DEL), 1 write run, 1 del run.
        assert_eq!(stats.read_batches.load(Ordering::Relaxed), 2);
        assert_eq!(stats.read_ops.load(Ordering::Relaxed), 3);
        assert_eq!(stats.write_batches.load(Ordering::Relaxed), 1);
        assert_eq!(stats.del_batches.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn mget_spans_one_batch_and_answers_in_order() {
        let idx = index();
        let stats = ServerStats::default();
        let mut ops = Vec::new();
        let mut slots = Vec::new();
        for k in 0..10u64 {
            let slot = ReplySlot::new();
            ops.push(Op::Write {
                key: k,
                value: k * 100,
                slot: Arc::clone(&slot),
            });
            slots.push(slot);
        }
        let (mget, mslot) = read_op(&[3, 99, 7]);
        ops.push(mget);
        execute_batch(&idx, &stats, ops);
        for s in &slots {
            assert_eq!(s.wait(), Reply::Simple("OK"));
        }
        assert_eq!(
            mslot.wait(),
            Reply::Array(vec![Reply::bulk_u64(300), Reply::Nil, Reply::bulk_u64(700)])
        );
        assert!((stats.mean_read_batch_keys() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn lane_drain_aggregates_and_honors_stop() {
        let lane = Lane::new();
        let stop = AtomicBool::new(false);
        for i in 0..5u64 {
            let (op, _slot) = read_op(&[i]);
            lane.push(op);
        }
        let got = lane.drain(3, Duration::ZERO, &stop);
        assert_eq!(got.len(), 3, "bounded by max");
        let got = lane.drain(16, Duration::from_micros(100), &stop);
        assert_eq!(got.len(), 2, "rest of the lane");
        stop.store(true, Ordering::Release);
        assert!(
            lane.drain(16, Duration::ZERO, &stop).is_empty(),
            "stop + empty"
        );
    }

    #[test]
    fn reply_slot_is_first_write_wins() {
        let slot = ReplySlot::new();
        slot.fill(Reply::Simple("OK"));
        slot.fill(Reply::Nil);
        assert_eq!(slot.wait(), Reply::Simple("OK"));
    }
}
