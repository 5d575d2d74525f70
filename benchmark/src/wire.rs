//! `server_mixed`: `shortcut-server` in-process over loopback, two
//! closed-loop connections with a batch-synchronous pipeline of 16,
//! 90 % GET / 10 % SET, zipf(0.99) keys — loadgen's defaults.
//!
//! The EH arm is the same server on its own `Engine::Eh` (shortcut
//! routing off): the same threads, lanes, window and reply slots, with
//! only the engine swapped, as on every other workload. The std arm has
//! no server: `speedup_vs_std` is taken in-process, with the workload's
//! operations applied batch by batch to the server's index and to the
//! yardstick (`apply_arm`), because any std-only server is CPU-bound
//! where this one waits on a timer, and the two age differently under
//! the host's weather (NOISE.md).

use crate::arms::{in_blocks, mem_bytes_per_key, served_frac, Report, RunCfg, StdMap};
use crate::measure::{interleave, merge, ratio, series, Arm, Series, SliceOutcome, WARM_STEPS};
use crate::trace::Trace;
use crate::util::{quantile, value_of, Rng, Zipf};
use shortcut_server::{
    execute_batch, Decoder, Engine, Lane, Op, Reply, ReplySlot, Request, Server, ServerConfig,
    ServerStats,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use taking_the_shortcut::Index;

const KEYSPACE: usize = 1 << 18;
const THETA: f64 = 0.99;
const READ_SHARE: f64 = 0.9;
const CLIENTS: usize = 2;
/// Requests in flight per connection.
const DEPTH: usize = 16;
/// Pipelined batches in each client's stream, cycled through.
const STREAM_BATCHES: usize = 1 << 11;
/// Batches per client per slice: 4096 requests over both clients, about
/// 40 ms. A slice must be long enough to average over where the scheduler
/// puts the threads, or an arm's slice times split into a lucky and an
/// unlucky mode and its low decile sits on the edge between them.
const SLICE_BATCHES: usize = 1 << 7;
/// Batches per slice of the in-process arms: 8192 operations, about 1 ms.
const APPLY_SLICE_BATCHES: usize = 1 << 9;
/// Steps discarded at the start of a set-up's warm-up call, on top of
/// `WARM_STEPS`.
const WARMUP_STEPS: usize = 2;
const BLOCKS: usize = 3;
/// Steps (one slice per arm: two arms untraced, a faster third traced)
/// the reference host (NOISE.md) does per second.
const STEPS_PER_SECOND: f64 = 10.5;
/// Steps of the two in-process arms per second of `--seconds`. A step is
/// 2 ms; a quarter of this many left `speedup_vs_std` spread 0.02 to 0.11
/// from one sitting to the next.
const APPLY_STEPS_PER_SECOND: f64 = 100.0;

/// One request as the in-process rungs apply it.
enum Cmd {
    Get(u64),
    Set(u64),
}

/// `DEPTH` pipelined requests, encoded, with the bytes a correct server
/// answers and where each reply ends in them.
struct Batch {
    cmds: Vec<Cmd>,
    request: Vec<u8>,
    expect: Vec<u8>,
    reply_ends: Vec<usize>,
}

impl Batch {
    fn generate(rng: &mut Rng, zipf: &Zipf) -> Batch {
        let mut batch = Batch {
            cmds: Vec::with_capacity(DEPTH),
            request: Vec::new(),
            expect: Vec::new(),
            reply_ends: Vec::with_capacity(DEPTH),
        };
        for _ in 0..DEPTH {
            if rng.unit() < READ_SHARE {
                let key = zipf.sample(rng) as u64;
                shortcut_server::protocol::encode_command(
                    &[b"GET", key.to_string().as_bytes()],
                    &mut batch.request,
                );
                // Every key of the keyspace is prefilled and SETs rewrite
                // `value_of(key)`, so every read must hit exactly that.
                Reply::bulk_u64(value_of(key)).encode(&mut batch.expect);
                batch.cmds.push(Cmd::Get(key));
            } else {
                let key = zipf.sample(rng) as u64;
                shortcut_server::protocol::encode_command(
                    &[
                        b"SET",
                        key.to_string().as_bytes(),
                        value_of(key).to_string().as_bytes(),
                    ],
                    &mut batch.request,
                );
                Reply::Simple("OK").encode(&mut batch.expect);
                batch.cmds.push(Cmd::Set(key));
            }
            batch.reply_ends.push(batch.expect.len());
        }
        batch
    }
}

/// The benchmark's end of one connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to in-process server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        Conn {
            stream,
            buf: vec![0; 1 << 16],
        }
    }

    /// Send each batch, read its replies, compare them byte for byte with
    /// what they must be, and note each request's latency (batch sent →
    /// its reply's last byte read). Returns requests failed; an I/O error
    /// or a wrong byte fails the batch's remaining requests and poisons
    /// nothing else, because the next batch starts a fresh exchange only
    /// if this one's byte count matched.
    fn exchange(&mut self, batches: &[Batch], latencies_us: &mut Vec<f32>) -> u64 {
        let mut failed = 0;
        for batch in batches {
            let sent = Instant::now();
            if self.stream.write_all(&batch.request).is_err() {
                return failed + DEPTH as u64;
            }
            let want = batch.expect.len();
            if self.buf.len() < want {
                self.buf.resize(want, 0);
            }
            let (mut have, mut done) = (0, 0);
            while have < want {
                match self.stream.read(&mut self.buf[have..want]) {
                    Ok(0) | Err(_) => return failed + (DEPTH - done) as u64,
                    Ok(n) => have += n,
                }
                let now_us = sent.elapsed().as_secs_f32() * 1e6;
                while done < DEPTH && batch.reply_ends[done] <= have {
                    latencies_us.push(now_us);
                    done += 1;
                }
            }
            let mut from = 0;
            for &end in &batch.reply_ends {
                failed += u64::from(self.buf[from..end] != batch.expect[from..end]);
                from = end;
            }
        }
        failed
    }
}

/// Everything a set-up builds.
struct Rig {
    /// Per client, one connection to each server.
    conns: Vec<Vec<Conn>>,
    /// One stream of pipelined batches per client.
    streams: Vec<Vec<Batch>>,
    /// The wire arms: the Shortcut-engine server first, then the EH-engine
    /// one and, on `--trace 1` only, the Shortcut-engine one with
    /// `batch_window = 0`.
    servers: Vec<Server>,
    /// The arms' series names, in the servers' order.
    names: Vec<&'static str>,
    /// The yardstick, prefilled like the servers.
    std_map: StdMap,
}

impl Rig {
    fn server(&self) -> &Server {
        &self.servers[0]
    }
}

impl Drop for Rig {
    /// Close the connections, then stop every server and wait for its
    /// threads: nothing this run started outlives it.
    fn drop(&mut self) {
        self.conns.clear();
        for server in self.servers.drain(..) {
            server.shutdown();
            server.join();
        }
    }
}

/// `ServerConfig::default()` on an ephemeral port, with `change` applied,
/// prefilled with the whole keyspace.
fn spawn_server(
    cfg: &RunCfg,
    prefill: &[(u64, u64)],
    change: impl FnOnce(&mut ServerConfig),
) -> Server {
    let defaults = ServerConfig::default();
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        capacity: cfg.scaled(defaults.capacity),
        ..defaults
    };
    change(&mut config);
    let server = Server::spawn(config).expect("spawning shortcut-server");
    server
        .ctx()
        .index
        .insert_batch_shared(prefill)
        .expect("prefill");
    server
}

fn setup(cfg: &RunCfg, trace: &mut Trace, parent: Option<usize>) -> Rig {
    let keyspace = cfg.scaled(KEYSPACE).max(1 << 10);
    let span = trace.open("streams", "bench", parent);
    let zipf = Zipf::new(keyspace, THETA);
    let stream_batches = cfg.scaled(STREAM_BATCHES).max(APPLY_SLICE_BATCHES);
    let streams: Vec<Vec<Batch>> = (0..CLIENTS)
        .map(|client| {
            let mut rng = Rng::new(cfg.seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9));
            (0..stream_batches)
                .map(|_| Batch::generate(&mut rng, &zipf))
                .collect()
        })
        .collect();
    trace.close(span, (CLIENTS * stream_batches * DEPTH) as u64);

    let span = trace.open("spawn_prefill", "server", parent);
    let prefill: Vec<(u64, u64)> = (0..keyspace as u64).map(|k| (k, value_of(k))).collect();
    let mut servers = vec![
        spawn_server(cfg, &prefill, |_| ()),
        spawn_server(cfg, &prefill, |config| config.engine = Engine::Eh),
    ];
    let mut names = vec!["server.request", "eh.request"];
    if cfg.trace {
        servers.push(spawn_server(cfg, &prefill, |config| {
            config.batch_window = Duration::ZERO;
        }));
        names.push("window0.request");
    }
    let mut std_map = StdMap::default();
    std_map.insert_batch(&prefill).expect("prefill");
    trace.close(span, ((servers.len() + 1) * prefill.len()) as u64);

    let conns: Vec<Vec<Conn>> = (0..CLIENTS)
        .map(|_| {
            servers
                .iter()
                .map(|server| Conn::open(server.local_addr()))
                .collect()
        })
        .collect();
    let mut rig = Rig {
        conns,
        streams,
        servers,
        names,
        std_map,
    };

    let span = trace.open("warm_up", "server", parent);
    let warmed = lockstep(&mut rig, WARMUP_STEPS, &mut Trace::new(false), None);
    assert!(
        warmed.iter().all(|w| w.series.failed == 0),
        "a warm-up request got a wrong reply"
    );
    trace.close(span, warmed.iter().map(|w| w.series.ops).sum());
    rig
}

/// Per-arm result of [`lockstep`]: the slice times plus every request's
/// latency.
struct WireSeries {
    series: Series,
    latencies_us: Vec<f32>,
}

/// The two clients replay slice after slice against one arm at a time,
/// starting each slice together, for `WARM_STEPS + steps` steps. A slice's
/// time runs from the common start to the later finish.
fn lockstep(
    rig: &mut Rig,
    steps: usize,
    trace: &mut Trace,
    parent: Option<usize>,
) -> Vec<WireSeries> {
    struct ClientLog {
        spans: Vec<Vec<(Instant, Instant)>>,
        failed: Vec<u64>,
        latencies_us: Vec<Vec<f32>>,
    }
    let names = &rig.names;
    let streams = &rig.streams;
    let barrier = Barrier::new(CLIENTS);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .conns
            .iter_mut()
            .enumerate()
            .map(|(client, conns)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = ClientLog {
                        spans: vec![Vec::new(); names.len()],
                        failed: vec![0; names.len()],
                        latencies_us: vec![Vec::new(); names.len()],
                    };
                    for step in 0..WARM_STEPS + steps {
                        for (a, conn) in conns.iter_mut().enumerate() {
                            let stream = &streams[client];
                            let len = SLICE_BATCHES;
                            let j = (step + a) % (stream.len() / len);
                            let slice = &stream[j * len..(j + 1) * len];
                            let mut latencies = Vec::with_capacity(len * DEPTH);
                            barrier.wait();
                            let start = Instant::now();
                            let failed = conn.exchange(slice, &mut latencies);
                            let end = Instant::now();
                            log.failed[a] += failed;
                            if step >= WARM_STEPS {
                                log.spans[a].push((start, end));
                                log.latencies_us[a].extend(latencies);
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    names
        .iter()
        .enumerate()
        .map(|(a, &name)| {
            let slice_requests = (CLIENTS * SLICE_BATCHES * DEPTH) as u64;
            let steps = logs[0].spans[a].len();
            let mut ns_per_op = Vec::with_capacity(steps);
            for step in 0..steps {
                let start = logs.iter().map(|l| l.spans[a][step].0).min().unwrap();
                let end = logs.iter().map(|l| l.spans[a][step].1).max().unwrap();
                ns_per_op.push(end.duration_since(start).as_nanos() as f64 / slice_requests as f64);
                trace.record(name, "server", parent, start, end, slice_requests);
            }
            WireSeries {
                series: Series {
                    name,
                    ops: (steps + WARM_STEPS) as u64 * slice_requests,
                    failed: logs.iter().map(|l| l.failed[a]).sum(),
                    ns_per_op,
                },
                latencies_us: logs
                    .iter()
                    .flat_map(|l| l.latencies_us[a].iter().copied())
                    .collect(),
            }
        })
        .collect()
}

/// An arm that applies client 0's operations in-process, batch by batch
/// as the server's executor would: the batch's reads in one call, then
/// its writes in one call. `apply` returns the reads' replies, or `None`
/// when a write failed.
fn apply_arm<'a>(
    name: &'static str,
    layer: &'static str,
    stream: &'a [Batch],
    mut apply: impl FnMut(&[u64], &[(u64, u64)]) -> Option<Vec<Option<u64>>> + 'a,
) -> Arm<'a> {
    Arm::new(name, layer, move |j| {
        let mut failed = 0;
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        for batch in &stream[j * APPLY_SLICE_BATCHES..(j + 1) * APPLY_SLICE_BATCHES] {
            reads.clear();
            writes.clear();
            for cmd in &batch.cmds {
                match cmd {
                    Cmd::Get(key) => reads.push(*key),
                    Cmd::Set(key) => writes.push((*key, value_of(*key))),
                }
            }
            match apply(&reads, &writes) {
                Some(replies) if replies.len() == reads.len() => {
                    for (&key, reply) in reads.iter().zip(replies) {
                        failed += crate::point::wrong(key, reply);
                    }
                }
                _ => failed += DEPTH as u64,
            }
        }
        SliceOutcome {
            ops: (APPLY_SLICE_BATCHES * DEPTH) as u64,
            failed,
        }
    })
}

/// The Shortcut arm and the std arm of `speedup_vs_std`, interleaved for
/// `steps` steps while the servers idle.
fn apply_in_process(
    rig: &mut Rig,
    steps: usize,
    trace: &mut Trace,
    parent: Option<usize>,
) -> Vec<Series> {
    let stream = &rig.streams[0];
    let index = &rig.servers[0].ctx().index;
    let std_map = &mut rig.std_map;
    let mut arms = [
        apply_arm("engine.apply", "facade", stream, |reads, writes| {
            let replies = index.get_many(reads);
            index.insert_batch_shared(writes).ok().map(|()| replies)
        }),
        apply_arm("std.apply", "bench", stream, |reads, writes| {
            let replies = std_map.get_many(reads);
            std_map.insert_batch(writes).ok().map(|()| replies)
        }),
    ];
    let slices = stream.len() / APPLY_SLICE_BATCHES;
    interleave(&mut arms, slices, steps, trace, parent)
}

/// Steps the in-process rungs get per second of `--seconds`: five arms,
/// about 12 ms a step, a quarter of the run.
const RUNG_STEPS_PER_SECOND: f64 = 20.0;

/// The server's stages timed in-process on client 0's own stream.
fn in_process_rungs(
    cfg: &RunCfg,
    rig: &Rig,
    trace: &mut Trace,
    root: Option<usize>,
    report: &mut Report,
) {
    let span = trace.open("in_process_rungs", "bench", root);
    let stream = &rig.streams[0];
    let slices = stream.len() / SLICE_BATCHES;
    let slice_of = |j: usize| &stream[j * SLICE_BATCHES..(j + 1) * SLICE_BATCHES];
    let slice_requests = (SLICE_BATCHES * DEPTH) as u64;
    let outcome = |failed| SliceOutcome {
        ops: slice_requests,
        failed,
    };
    let index = &rig.server().ctx().index;
    let stats = ServerStats::default();
    let replies: Vec<Vec<Reply>> = stream
        .iter()
        .map(|batch| {
            batch
                .cmds
                .iter()
                .map(|cmd| match cmd {
                    Cmd::Get(key) => Reply::bulk_u64(value_of(*key)),
                    Cmd::Set(_) => Reply::Simple("OK"),
                })
                .collect()
        })
        .collect();
    let build_ops = |batch: &Batch| -> Vec<Op> {
        batch
            .cmds
            .iter()
            .map(|cmd| match cmd {
                Cmd::Get(key) => Op::Read {
                    keys: vec![*key],
                    single: true,
                    slot: ReplySlot::new(),
                },
                Cmd::Set(key) => Op::Write {
                    key: *key,
                    value: value_of(*key),
                    slot: ReplySlot::new(),
                },
            })
            .collect()
    };

    // A second thread that answers whatever lands on the lane at once:
    // push -> drain -> fill -> wait is one hop there and back.
    let lane = Lane::new();
    let lane_stop = AtomicBool::new(false);
    let timed = std::thread::scope(|scope| {
        scope.spawn(|| loop {
            let ops = lane.drain(DEPTH, Duration::ZERO, &lane_stop);
            if ops.is_empty() {
                return;
            }
            for op in ops {
                if let Op::Read { slot, .. } = op {
                    slot.fill(Reply::Nil);
                }
            }
        });
        let mut decoder = Decoder::new();
        let mut encoded = Vec::with_capacity(1 << 12);
        let mut arms = vec![
            Arm::new("server.decode", "server", |j| {
                let mut failed = 0;
                for batch in slice_of(j) {
                    decoder.feed(&batch.request);
                    let mut parsed = 0;
                    while let Ok(Some(args)) = decoder.next_command() {
                        parsed += usize::from(Request::parse(&args).is_ok());
                    }
                    failed += (DEPTH - parsed) as u64;
                }
                outcome(failed)
            }),
            Arm::new("server.encode", "server", |j| {
                let mut failed = 0;
                let from = j * SLICE_BATCHES;
                for (batch, replies) in slice_of(j).iter().zip(&replies[from..]) {
                    encoded.clear();
                    replies.iter().for_each(|r| r.encode(&mut encoded));
                    failed += u64::from(encoded != batch.expect);
                }
                outcome(failed)
            }),
            Arm::new("server.op_build", "server", |j| {
                for batch in slice_of(j) {
                    std::hint::black_box(build_ops(batch));
                }
                outcome(0)
            }),
            Arm::new("server.op_build_execute", "server", |j| {
                for batch in slice_of(j) {
                    execute_batch(index, &stats, build_ops(batch));
                }
                outcome(0)
            }),
            Arm::new("server.lane_hop", "server", |_| {
                let hops = 64;
                for _ in 0..hops {
                    let slot = ReplySlot::new();
                    lane.push(Op::Read {
                        keys: Vec::new(),
                        single: true,
                        slot: Arc::clone(&slot),
                    });
                    std::hint::black_box(slot.wait());
                }
                SliceOutcome {
                    ops: hops,
                    failed: 0,
                }
            }),
        ];
        let timed = interleave(
            &mut arms,
            slices,
            cfg.repeats(RUNG_STEPS_PER_SECOND),
            trace,
            span,
        );
        lane_stop.store(true, Ordering::Release);
        timed
    });
    report.count(&timed);
    let ns = |name: &str| series(&timed, name).quiet_ns();
    let layer = &mut report.per_layer;
    layer.insert("server.decode_ns", ns("server.decode"));
    layer.insert("server.encode_ns", ns("server.encode"));
    layer.insert("server.lane_hop_ns", ns("server.lane_hop"));
    layer.insert(
        "server.execute_ns_per_op",
        ns("server.op_build_execute") - ns("server.op_build"),
    );
    trace.close(span, 1);
}

pub fn run(cfg: &RunCfg, trace: &mut Trace, root: Option<usize>, report: &mut Report) {
    // A traced run gives a quarter of its time to the in-process rungs.
    let share = if cfg.trace { 0.7 } else { 1.0 } / BLOCKS as f64;
    let steps = cfg.repeats(share * STEPS_PER_SECOND);
    // The in-process arms need a fifth of the time: a step is 2 ms.
    let apply_steps = cfg.repeats(APPLY_STEPS_PER_SECOND / BLOCKS as f64);
    let mut all: Vec<Series> = Vec::new();
    let mut applied: Vec<Series> = Vec::new();
    let mut latencies_us: Vec<Vec<f32>> = Vec::new();
    let mut served = 1.0f64;
    let rig = in_blocks(
        BLOCKS,
        trace,
        root,
        report,
        |trace, span| setup(cfg, trace, span),
        |rig, trace| {
            let before = rig.server().ctx().index.stats();
            let span = trace.open("measure", "bench", root);
            let timed = lockstep(rig, steps, trace, span);
            trace.close(span, timed.iter().map(|t| t.series.ops).sum());
            latencies_us.resize(timed.len(), Vec::new());
            for (total, part) in latencies_us.iter_mut().zip(&timed) {
                total.extend(&part.latencies_us);
            }
            merge(&mut all, timed.into_iter().map(|t| t.series).collect());
            served = served.min(served_frac(&before, &rig.server().ctx().index.stats()));
            let span = trace.open("apply_in_process", "bench", root);
            merge(
                &mut applied,
                apply_in_process(rig, apply_steps, trace, span),
            );
            trace.close(span, 1);
        },
    );
    report.count(&all);
    report.count(&applied);

    for server in &rig.servers {
        let ctx = server.ctx();
        let protocol_errors = ctx.stats.protocol_errors.load(Ordering::Relaxed);
        report.guard(protocol_errors == 0, || {
            format!("a server counted {protocol_errors} protocol errors")
        });
        report.guard(ctx.index.maint_error().is_none(), || {
            format!("mapper error: {:?}", ctx.index.maint_error())
        });
    }
    let ctx = Arc::clone(rig.server().ctx());
    let after = ctx.index.stats();
    let request_ns = series(&all, "server.request").quiet_ns();
    let e2e = &mut report.end_to_end;
    e2e.insert("speedup_vs_eh", ratio(&all, "eh.request", "server.request"));
    e2e.insert(
        "speedup_vs_std",
        ratio(&applied, "std.apply", "engine.apply"),
    );
    e2e.insert("mem_bytes_per_key", mem_bytes_per_key(&after));

    if cfg.trace {
        let latencies = |name: &str| -> Vec<f64> {
            let arm = all.iter().position(|s| s.name == name).expect("wire arm");
            latencies_us[arm].iter().map(|&l| f64::from(l)).collect()
        };
        let single = latencies("server.request");
        let stats = &ctx.stats;
        let layer = &mut report.per_layer;
        layer.insert("e2e.qps", 1e9 / request_ns);
        layer.insert("e2e.p50_us", quantile(&single, 0.5));
        layer.insert("e2e.p99_us", quantile(&single, 0.99));
        layer.insert("e2e.shortcut_served_frac", served);
        layer.insert(
            "server.qps.window0",
            1e9 / series(&all, "window0.request").quiet_ns(),
        );
        layer.insert(
            "server.p50_us.window0",
            quantile(&latencies("window0.request"), 0.5),
        );
        layer.insert("server.mean_read_batch_keys", stats.mean_read_batch_keys());
        layer.insert(
            "server.read_batches",
            stats.read_batches.load(Ordering::Relaxed) as f64,
        );
        layer.insert(
            "server.write_batches",
            stats.write_batches.load(Ordering::Relaxed) as f64,
        );
        layer.insert(
            "server.protocol_errors",
            stats.protocol_errors.load(Ordering::Relaxed) as f64,
        );
        layer.insert("core.out_of_sync_frac", f64::from(!after.in_sync));
        layer.insert("rewire.vmas_peak", after.vma.in_use as f64);
        layer.insert(
            "server.engine_share",
            series(&applied, "engine.apply").quiet_ns() / request_ns,
        );
        report.structure(&after, after.len as u64);
        in_process_rungs(cfg, &rig, trace, root, report);
    }

    let span = trace.open("shutdown", "server", root);
    let start = Instant::now();
    drop(ctx);
    drop(rig);
    report
        .per_layer
        .insert("rewire.drop_ms", start.elapsed().as_secs_f64() * 1e3);
    trace.close(span, 1);
}
