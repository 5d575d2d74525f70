//! Request batching: reply slots, the run splitter that funnels a read's
//! requests into the index's batched entry points, and the benchmark's
//! submission lane.
//!
//! The flow is the whole point of this crate:
//!
//! 1. A connection thread decodes one read's requests (up to 16 KB) into
//!    [`Op`]s, in request order, and runs them itself, at most
//!    [`crate::ServerConfig::max_batch`] at a time, with no hand-off to
//!    another thread and no wait for more. **Per-connection program order
//!    is preserved** — `SET 7 70` then `GET 7` on one connection always
//!    observes the write — since a connection runs a read's ops in order
//!    and reads again only once they are answered. Batches hold one
//!    connection's requests: a client that pipelines gets batches as deep
//!    as its pipeline, a client that sends one request at a time gets
//!    batches of one.
//! 2. [`RunBuffers::execute`] splits such a batch into **maximal
//!    homogeneous runs** (reads / inserts / removes). Runs execute in
//!    order, so the request order survives; within a run the per-request
//!    cost is amortized:
//!    * a read run becomes **one** `get_many_into` batch — one read
//!      section (a reader pin and one load of the admission word) per
//!      shard the run touches, entered once for every `GET`/`MGET` in the
//!      run and walked in request order, answered into a buffer the
//!      connection keeps ([`RunBuffers`]);
//!    * a write run becomes **one** `insert_batch_shared` — one write
//!      section per shard it touches, applied in request order, so a
//!      failing `SET` leaves exactly the run's earlier ones applied; other
//!      connections write the shards it does not touch in parallel;
//!    * a remove run becomes **one** `remove_batch_shared_into`.
//! 3. Each op carries its [`ReplySlot`]; running it fills the slot, and
//!    the connection — which holds one read's slots in request order,
//!    immediate replies (`PING`, `INFO`, errors) among them — takes each,
//!    encodes the replies in order and writes them at once.
//!
//! [`Lane`] (push, drain) hands ops to another thread. The server does not
//! use it; the benchmark's `lane_hop` rung times it.

use crate::protocol::Reply;
use shortcut_rewire::sync::{AtomicBool, AtomicU64, Condvar, Mutex, Ordering};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use taking_the_shortcut::ShortcutIndex;

/// A one-shot rendezvous for one request's reply: whoever runs the op
/// fills it once; the waiter blocks until it is filled.
/// `fill` notifies only a parked waiter: std's condvar makes a system
/// call on every notify, and in the server every slot is filled, on the
/// connection's own thread, before it is waited on.
#[derive(Debug, Default)]
pub struct ReplySlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct SlotState {
    reply: Option<Reply>,
    /// The waiter is in `wait`'s condvar wait (written and read under the mutex).
    parked: bool,
}

impl ReplySlot {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Fill the slot (first write wins; a second fill is ignored, so no
    /// path that ever fills a slot twice can panic its filler).
    pub fn fill(&self, reply: Reply) {
        let mut state = self.state.lock().unwrap();
        let wake = state.reply.is_none() && state.parked;
        state.reply.get_or_insert(reply);
        drop(state);
        if wake {
            self.cv.notify_one();
        }
    }

    /// Block until the slot is filled and take the reply.
    pub fn wait(&self) -> Reply {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(reply) = state.reply.take() {
                return reply;
            }
            state.parked = true;
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
    /// Seeded bug: the double-fill tolerance removed. A second filler
    /// trips the assertion — exactly the crash the `is_none` guard in
    /// [`ReplySlot::fill`] exists to prevent.
    pub fn fill_seeded_assert_empty(&self, reply: Reply) {
        let mut state = self.state.lock().unwrap();
        assert!(state.reply.is_none(), "double fill");
        state.reply = Some(reply);
        self.cv.notify_one();
    }

    /// Seeded bug: the emptiness check released before waiting. A fill
    /// that lands in the gap notifies nobody, and the subsequent wait has
    /// no filler left to wake it — the lost wakeup shows up as a model
    /// deadlock.
    pub fn wait_seeded_check_then_wait(&self) -> Reply {
        loop {
            if let Some(reply) = self.state.lock().unwrap().reply.take() {
                return reply;
            }
            let mut state = self.state.lock().unwrap();
            state.parked = true;
            drop(self.cv.wait(state).unwrap());
        }
    }

    /// Seeded bug: the waiter flag read apart from the store it decides
    /// about. The waiter can park in between; the fill then skips the
    /// notify, and the waiter sleeps for good — a model deadlock.
    pub fn fill_seeded_flag_read_apart(&self, reply: Reply) {
        let parked = self.state.lock().unwrap().parked;
        self.state.lock().unwrap().reply.get_or_insert(reply);
        if parked {
            self.cv.notify_one();
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

/// An MPSC hand-off: producers push, one consumer drains. The server runs
/// every op on the connection that decoded it; only the benchmark's
/// `lane_hop` rung uses a lane.
#[derive(Debug, Default)]
pub struct Lane {
    q: Mutex<VecDeque<Op>>,
    cv: Condvar,
}

impl Lane {
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue one op and wake the consumer.
    pub fn push(&self, op: Op) {
        self.q.lock().unwrap().push_back(op);
        self.cv.notify_one();
    }

    /// Drain up to `max` ops. Blocks (in bounded slices, so `stop` is
    /// honored promptly) while the lane is empty, then takes what is
    /// queued without waiting for more. Returns an empty vec only when
    /// `stop` is set and the lane is empty (the drain-then-exit contract).
    /// `_window` is ignored; it is kept only for callers that still pass it.
    pub fn drain(&self, max: usize, _window: Duration, stop: &AtomicBool) -> Vec<Op> {
        let mut q = self.q.lock().unwrap();
        while q.is_empty() {
            if stop.load(Ordering::Acquire) {
                return Vec::new();
            }
            q = self
                .cv
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap()
                .0;
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
        self.per_read_batch(&self.read_keys)
    }

    /// Mean `GET`/`MGET` commands per read batch.
    pub fn mean_read_batch_ops(&self) -> f64 {
        self.per_read_batch(&self.read_ops)
    }

    fn per_read_batch(&self, count: &AtomicU64) -> f64 {
        match self.read_batches.load(Ordering::Relaxed) {
            0 => 0.0,
            batches => count.load(Ordering::Relaxed) as f64 / batches as f64,
        }
    }
}

/// Add `n` to a statistics counter.
fn count(counter: &AtomicU64, n: usize) {
    counter.fetch_add(n as u64, Ordering::Relaxed);
}

/// Execute one batch on fresh buffers. A connection keeps a
/// [`RunBuffers`] and calls [`RunBuffers::execute`] instead.
pub fn execute_batch(index: &ShortcutIndex, stats: &ServerStats, ops: Vec<Op>) {
    RunBuffers::default().execute(index, stats, ops);
}

/// What one run of a batch is gathered into and answered from. A
/// connection owns one for its lifetime, so a steady-state run allocates
/// nothing: the index's `_into` entry points reuse `answers`, and the
/// gathering vectors keep their capacity.
#[derive(Debug, Default)]
pub struct RunBuffers {
    reads: Vec<(Vec<u64>, bool, Arc<ReplySlot>)>,
    writes: Vec<(u64, u64, Arc<ReplySlot>)>,
    removes: Vec<(Vec<u64>, Arc<ReplySlot>)>,
    /// The run's keys (reads, removes) flattened in request order.
    keys: Vec<u64>,
    /// The run's entries (writes) in request order.
    entries: Vec<(u64, u64)>,
    /// `answers[i]` answers `keys[i]`.
    answers: Vec<Option<u64>>,
}

impl RunBuffers {
    /// Execute one batch: split it into maximal homogeneous runs and drive
    /// each run through the matching batched index entry point.
    pub fn execute(
        &mut self,
        index: &ShortcutIndex,
        stats: &ServerStats,
        ops: impl IntoIterator<Item = Op>,
    ) {
        // The op kind of the run being accumulated. A kind switch flushes
        // the previous run, preserving the request order across runs.
        let mut current = None;
        for op in ops {
            let kind = std::mem::discriminant(&op);
            if current.is_some_and(|run| run != kind) {
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
            count(&stats.read_batches, 1);
            count(&stats.read_ops, reads.len());
            count(&stats.read_keys, keys.len());
            let mut at = 0;
            for (keys, single, slot) in reads.drain(..) {
                let mine = &answers[at..at + keys.len()];
                at += keys.len();
                let answer = |a: Option<u64>| a.map_or(Reply::Nil, Reply::bulk_u64);
                slot.fill(if single {
                    answer(mine[0])
                } else {
                    Reply::Array(mine.iter().map(|&a| answer(a)).collect())
                });
            }
        } else if !writes.is_empty() {
            entries.clear();
            entries.extend(writes.iter().map(|&(k, v, _)| (k, v)));
            let result = index.insert_batch_shared(entries);
            count(&stats.write_batches, 1);
            count(&stats.write_ops, entries.len());
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
            count(&stats.del_batches, 1);
            count(&stats.del_keys, keys.len());
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
    fn pushed_ops_are_drained_at_once_in_push_order() {
        let lane = Lane::new();
        let stop = AtomicBool::new(false);
        for k in 0..16u64 {
            lane.push(read_op(&[k]).0);
        }
        let started = std::time::Instant::now();
        // A window the drain would nap through if it still waited for company.
        let got = lane.drain(256, Duration::from_secs(5), &stop);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "the drain napped"
        );
        let keys: Vec<u64> = got
            .iter()
            .map(|op| match op {
                Op::Read { keys, .. } => keys[0],
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn reply_slot_is_first_write_wins() {
        let slot = ReplySlot::new();
        slot.fill(Reply::Simple("OK"));
        slot.fill(Reply::Nil);
        assert_eq!(slot.wait(), Reply::Simple("OK"));
    }
}
